"""Reusable Hypothesis strategies for the property-based test layer.

The equality-style tests of this suite (fast path == reference, vectorized
== loop, robust == serial) all quantify over the same domains: genomes,
quantized weight tensors, objective vectors and fault-injection
configurations. Centralizing the strategies here keeps the domains honest —
every property test draws from the full space the production code accepts,
edge values (empty masks, rate 0.0/1.0, duplicate objectives) included.

Import as a plain module (``from strategies import genomes``): ``tests/`` is
on ``sys.path`` during collection.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.hardware.fixed_point import max_symmetric_level
from repro.reliability import FAULT_MODELS, FaultInjectionConfig
from repro.search.genome import (
    DEFAULT_BIT_CHOICES,
    DEFAULT_CLUSTER_CHOICES,
    DEFAULT_SPARSITY_CHOICES,
    Genome,
)

#: Seeds for ``np.random.default_rng`` inside properties that need a
#: generator: hypothesis shrinks over the seed, numpy supplies the stream.
rng_seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def genomes(draw, min_layers: int = 1, max_layers: int = 4):
    """A :class:`repro.search.Genome` over the default gene alphabets."""
    n_layers = draw(st.integers(min_layers, max_layers))
    return Genome(
        weight_bits=tuple(
            draw(st.sampled_from(DEFAULT_BIT_CHOICES)) for _ in range(n_layers)
        ),
        sparsity=tuple(
            draw(st.sampled_from(DEFAULT_SPARSITY_CHOICES)) for _ in range(n_layers)
        ),
        clusters=tuple(
            draw(st.sampled_from(DEFAULT_CLUSTER_CHOICES)) for _ in range(n_layers)
        ),
    )


@st.composite
def weight_tensors(
    draw,
    max_rows: int = 12,
    max_cols: int = 12,
    max_magnitude: float = 8.0,
):
    """A float64 weight matrix, including all-zero and single-element shapes."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    values = draw(
        st.lists(
            st.floats(
                min_value=-max_magnitude,
                max_value=max_magnitude,
                allow_nan=False,
                allow_infinity=False,
                width=64,
            ),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.asarray(values, dtype=np.float64).reshape(rows, cols)


@st.composite
def quantized_weight_tensors(draw, min_bits: int = 2, max_bits: int = 8):
    """``(integer weight matrix, bits)`` on the symmetric level grid."""
    bits = draw(st.integers(min_bits, max_bits))
    level = max_symmetric_level(bits)
    rows = draw(st.integers(1, 10))
    cols = draw(st.integers(1, 10))
    values = draw(
        st.lists(
            st.integers(-level, level), min_size=rows * cols, max_size=rows * cols
        )
    )
    return np.asarray(values, dtype=np.int64).reshape(rows, cols), bits


@st.composite
def fault_configs(draw, max_trials: int = 6):
    """A full-domain :class:`FaultInjectionConfig` (degenerate rates included)."""
    return FaultInjectionConfig(
        fault_rate=draw(
            st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0, width=32))
        ),
        fault_model=draw(st.sampled_from(FAULT_MODELS)),
        weight_bits=draw(st.integers(2, 8)),
        level_shift_levels=draw(st.integers(1, 3)),
        n_trials=draw(st.integers(1, max_trials)),
        seed=draw(st.integers(0, 2**16)),
        include_bias=draw(st.booleans()),
    )


def objective_vectors(
    min_size: int = 1,
    max_size: int = 40,
    n_objectives: "tuple[int, int]" = (2, 3),
    max_value: float = 10.0,
    allow_ties: bool = True,
):
    """Populations of minimized objective vectors (uniform arity per draw).

    Covers both the classic 2-objective ranking and the robustness-aware
    3-objective one. ``allow_ties`` draws from a coarse grid so duplicate
    vectors (the NSGA-II tie-handling edge) actually occur.
    """
    values = (
        st.integers(0, 5).map(float) if allow_ties else st.floats(0, max_value)
    )

    def _population(arity: int):
        vector = st.tuples(*([values] * arity))
        return st.lists(vector, min_size=min_size, max_size=max_size)

    return st.integers(n_objectives[0], n_objectives[1]).flatmap(_population)


#: Operand-width multisets for the adder-tree cost kernels.
operand_width_lists = st.lists(
    st.integers(1, 15), min_size=2, max_size=24
)


# -- serving-layer front documents --------------------------------------------------


#: Techniques that appear on report fronts (the baseline point is serialized
#: separately, under the document's ``baseline`` key).
FRONT_TECHNIQUES = ("quantization", "pruning", "clustering", "combined")


@st.composite
def front_rows(draw, robust: "bool | None" = None):
    """One front-row dict, shaped exactly like ``report.py`` serializes it.

    Values come from coarse grids so ties and duplicate criteria (the
    Pareto-dedup and stable-sort edges) actually occur. ``robust=True``
    adds the ``robust_accuracy``/``accuracy_std`` columns (the 3-objective
    arity), ``robust=False`` omits them (2-objective), and ``None`` draws
    per row — a mixed-arity front, which the store must still serve.
    """
    if robust is None:
        robust = draw(st.booleans())
    row = {
        "technique": draw(st.sampled_from(FRONT_TECHNIQUES)),
        "accuracy": draw(st.integers(0, 20)) / 20.0,
        "area": draw(st.integers(0, 10)) / 2.0,
        "power": draw(st.integers(0, 10)) / 2.0,
        "delay": draw(st.integers(0, 10)) / 4.0,
        "parameters": draw(
            st.one_of(
                st.just({}),
                st.fixed_dictionaries({"weight_bits": st.sampled_from([2, 3, 4, 6])}),
            )
        ),
    }
    if robust:
        row["robust_accuracy"] = draw(st.integers(0, 20)) / 20.0
        row["accuracy_std"] = draw(st.integers(0, 8)) / 100.0
    return row


@st.composite
def front_documents(
    draw,
    dataset: str = "seeds",
    min_points: int = 0,
    max_points: int = 10,
    robust: "bool | None" = None,
):
    """A full ``front_<dataset>.json`` document at 2- or 3-objective arity.

    The arity is uniform across the document when ``robust`` is ``None``
    (drawn once), matching real reports — every point of a robustness-on
    campaign carries the robust columns. Pass ``robust`` explicitly to pin
    the arity.
    """
    if robust is None:
        robust = draw(st.booleans())
    rows = draw(
        st.lists(front_rows(robust=robust), min_size=min_points, max_size=max_points)
    )
    return {
        "dataset": dataset,
        "baseline": {
            "technique": "baseline",
            "accuracy": draw(st.integers(10, 20)) / 20.0,
            "area": draw(st.integers(4, 20)) / 2.0,
            "power": draw(st.integers(1, 10)) / 2.0,
            "delay": draw(st.integers(1, 10)) / 4.0,
            "parameters": {},
        },
        "front": rows,
        "combined_best_gain": draw(st.integers(0, 40)) / 4.0,
    }


@st.composite
def front_query_payloads(draw, dataset: str = "seeds"):
    """A valid ``POST /query`` body exercising every query axis."""
    payload: "dict[str, object]" = {"dataset": dataset}
    if draw(st.booleans()):
        payload["min_accuracy"] = draw(st.integers(0, 20)) / 20.0
    for bound in ("max_area", "max_power"):
        if draw(st.booleans()):
            payload[bound] = draw(st.integers(0, 10)) / 2.0
    if draw(st.booleans()):
        payload["max_delay"] = draw(st.integers(0, 10)) / 4.0
    if draw(st.booleans()):
        payload["min_robust_accuracy"] = draw(st.integers(0, 20)) / 20.0
    payload["order_by"] = draw(
        st.sampled_from(("accuracy", "area", "power", "delay", "robust_accuracy"))
    )
    payload["descending"] = draw(st.booleans())
    if draw(st.booleans()):
        payload["top_k"] = draw(st.integers(1, 6))
    if draw(st.booleans()):
        payload["include_dominated"] = True
    return payload


# -- campaign-fabric lease protocol -------------------------------------------------


#: Operation vocabulary for :func:`lease_event_sequences`.
LEASE_OPS = ("acquire", "renew", "release", "advance", "remove")


@st.composite
def lease_event_sequences(
    draw,
    n_workers: int = 3,
    n_jobs: int = 3,
    max_events: int = 40,
    ttl: float = 10.0,
):
    """Operation sequences over a shared lease directory.

    Each event is a tuple ``(op, worker, job)`` with ``op`` drawn from
    :data:`LEASE_OPS` (``advance`` carries seconds instead of a job, and
    ``remove`` models administrative reaping by a coordinator). Sequences
    deliberately include nonsense (renewing a lease never held, releasing
    twice, advancing past several TTLs) — the lease-safety invariant must
    hold under arbitrary interleavings, not just polite ones.
    """
    workers = [f"w{i}" for i in range(n_workers)]
    jobs = [f"job{i}" for i in range(n_jobs)]
    events = []
    for _ in range(draw(st.integers(1, max_events))):
        op = draw(st.sampled_from(LEASE_OPS))
        if op == "advance":
            events.append((op, None, draw(st.floats(0.1, ttl * 1.5))))
        elif op == "remove":
            events.append((op, None, draw(st.sampled_from(jobs))))
        else:
            events.append(
                (op, draw(st.sampled_from(workers)), draw(st.sampled_from(jobs)))
            )
    return events
