"""Design-space query service over campaign report fronts.

Turns the static artifacts of ``repro campaign report`` into a serving
layer: :class:`FrontStore` indexes report directories with an LRU of
deserialized fronts, :class:`QueryEngine` answers typed constraint /
top-k / nearest-trade-off queries over the columnar views, and
:func:`start_server` / ``repro serve`` expose both over a stdlib
threaded HTTP API with metrics and on-miss campaign enqueue.
"""

from .http import (
    FrontServer,
    MissEnqueuer,
    ServingMetrics,
    serve,
    start_server,
)
from .query import (
    FrontQuery,
    QueryEngine,
    QueryResult,
    QueryValidationError,
)
from .store import (
    FRONT_COLUMNS,
    FrontStore,
    FrontView,
    UnknownDatasetError,
    build_columns,
    combine_fingerprints,
    is_safe_dataset_name,
)

__all__ = [
    "FRONT_COLUMNS",
    "FrontQuery",
    "FrontServer",
    "FrontStore",
    "FrontView",
    "MissEnqueuer",
    "QueryEngine",
    "QueryResult",
    "QueryValidationError",
    "ServingMetrics",
    "UnknownDatasetError",
    "build_columns",
    "combine_fingerprints",
    "is_safe_dataset_name",
    "serve",
    "start_server",
]
