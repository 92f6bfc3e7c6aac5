"""Unit tests for repro.core.lru.LRUCache, the memo behind the evaluation
cache and the serving store."""

import pytest

from repro.core import LRUCache
from repro.core.results import DesignPoint
from repro.search.evaluator import EvaluationCache
from repro.search.genome import Genome


def filled(max_entries, keys):
    cache = LRUCache(max_entries=max_entries)
    for key in keys:
        cache.put(key, f"value-{key}")
    return cache


def keys_of(cache):
    return [key for key, _value in cache.items()]


def test_unbounded_keeps_first_insertion_order_and_never_evicts():
    cache = filled(None, range(50))
    assert len(cache) == 50
    assert keys_of(cache) == list(range(50))
    assert cache.evictions == 0


def test_unbounded_lookup_does_not_reorder():
    cache = filled(None, ["a", "b", "c"])
    assert cache.get("a") == "value-a"
    assert keys_of(cache) == ["a", "b", "c"]


@pytest.mark.parametrize("bound", [1, 2, 3, 5])
def test_bound_keeps_the_most_recent_keys(bound):
    cache = filled(bound, range(8))
    assert len(cache) == bound
    assert keys_of(cache) == list(range(8 - bound, 8))
    assert cache.evictions == 8 - bound


def test_hit_refreshes_recency_so_another_key_is_evicted():
    cache = filled(2, ["a", "b"])
    assert cache.get("a") == "value-a"
    cache.put("c", "value-c")
    assert keys_of(cache) == ["a", "c"]
    assert cache.get("b") is None
    assert cache.evictions == 1


def test_reinsert_replaces_value_and_refreshes_without_evicting():
    cache = filled(2, ["a", "b"])
    cache.put("a", "new")
    assert len(cache) == 2
    assert cache.evictions == 0
    assert cache.items() == [("b", "value-b"), ("a", "new")]


def test_miss_returns_none_and_counters_are_left_to_the_owner():
    cache = filled(3, ["a"])
    assert cache.get("missing") is None
    assert cache.get("a") == "value-a"
    assert (cache.hits, cache.misses) == (0, 0)


def test_pop_drops_a_key_without_counting_an_eviction():
    cache = filled(2, ["a", "b"])
    cache.pop("a")
    cache.pop("never-held")
    assert keys_of(cache) == ["b"]
    assert cache.evictions == 0
    cache.put("c", "value-c")
    assert keys_of(cache) == ["b", "c"]
    assert cache.evictions == 0


def test_snapshots_do_not_follow_later_writes():
    cache = filled(None, ["a", "b"])
    items, values = cache.items(), cache.values()
    cache.put("c", "value-c")
    cache.pop("a")
    assert items == [("a", "value-a"), ("b", "value-b")]
    assert values == ["value-a", "value-b"]


def test_tuple_keys_address_entries_independently():
    cache = LRUCache(max_entries=4)
    cache.put(("campaign-a", "seeds"), 1)
    cache.put(("campaign-b", "seeds"), 2)
    cache.put(("campaign-a", "iris"), 3)
    assert cache.get(("campaign-a", "seeds")) == 1
    assert cache.get(("campaign-b", "seeds")) == 2
    assert cache.get(("campaign-a", "iris")) == 3
    assert cache.get(("campaign-b", "iris")) is None


def genome(sparsity, bits=4):
    return Genome(weight_bits=(bits, bits), sparsity=(sparsity, 0.0), clusters=(0, 0))


def point(accuracy):
    return DesignPoint(technique="combined", accuracy=accuracy, area=1.0)


def test_evaluation_cache_is_keyed_by_genome_key():
    cache = EvaluationCache()
    cache.put(genome(0.2), point(0.9))
    # Sparsity genes are rounded to 6 decimals in the key.
    same = genome(0.2 + 1e-9)
    assert same in cache
    assert cache.get(same).accuracy == 0.9
    assert genome(0.3) not in cache
    assert genome(0.2, bits=5) not in cache


def test_evaluation_cache_points_follow_first_seen_order_when_unbounded():
    cache = EvaluationCache()
    for index, sparsity in enumerate([0.4, 0.1, 0.3]):
        cache.put(genome(sparsity), point(index / 10))
    cache.get(genome(0.4))
    assert [p.accuracy for p in cache.points()] == [0.0, 0.1, 0.2]


def test_bounded_evaluation_cache_evicts_least_recent_genome():
    cache = EvaluationCache(max_entries=2)
    cache.put(genome(0.1), point(0.1))
    cache.put(genome(0.2), point(0.2))
    cache.get(genome(0.1))
    cache.put(genome(0.3), point(0.3))
    assert genome(0.2) not in cache
    assert [p.accuracy for p in cache.points()] == [0.1, 0.3]
    assert cache.evictions == 1
