"""The one bounded memo behind the evaluation cache and the serving store."""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, List, Optional, Tuple


class LRUCache:
    """Insertion-ordered map with an optional least-recently-used bound.

    Unbounded by default, keeping first-insertion order. With
    ``max_entries`` set, a lookup hit or a re-insert makes an entry the
    most recent, and inserting beyond the bound evicts the least recently
    used one (counted in :attr:`evictions`).

    ``hits`` and ``misses`` are counted by the owner, which knows what a
    request is: the evaluator counts per population, the front store per
    view lookup.

    Args:
        max_entries: optional bound, ``>= 1``; ``None`` = unbounded.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[object]:
        """The value held for ``key``, or ``None`` (refreshes recency)."""
        value = self._entries.get(key)
        if value is not None and self.max_entries is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or replace) ``key``'s value, evicting overflow."""
        self._entries[key] = value
        if self.max_entries is not None:
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def pop(self, key: Hashable) -> None:
        """Drop ``key`` if held (not counted as an eviction)."""
        self._entries.pop(key, None)

    def items(self) -> List[Tuple[Hashable, object]]:
        """Snapshot of ``(key, value)`` pairs, least recent first."""
        return list(self._entries.items())

    def values(self) -> List[object]:
        """Snapshot of the values, least recent first."""
        return list(self._entries.values())
