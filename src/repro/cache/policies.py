"""Alternative cache replacement policies for the Prompt Augmenter.

The paper's Further Discussion notes "we can replace the cache in the
prompt augmenter with other caching solutions"; these are the two natural
alternatives to LFU, sharing its interface so the Augmenter can swap them
via ``GraphPrompterConfig.cache_policy``:

* :class:`LRUCache` — least-recently-used: retrieval hits refresh recency
  instead of frequency.
* :class:`FIFOCache` — plain insertion-order eviction: hits are ignored, so
  the cache is a sliding window over recent pseudo-labelled queries.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterator

from .stats import StatCounters

__all__ = ["LRUCache", "FIFOCache"]


class LRUCache(StatCounters):
    """Bounded mapping with least-recently-used eviction."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits: dict[Hashable, int] = {}
        self._reset_counters()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        if key not in self._data:
            self._stat_misses += 1
            return default
        self._data.move_to_end(key)
        self._hits[key] = self._hits.get(key, 0) + 1
        self._stat_hits += 1
        return self._data[key]

    def peek(self, key: Hashable, default: Any = None) -> Any:
        return self._data.get(key, default)

    def touch(self, key: Hashable) -> bool:
        if key not in self._data:
            self._stat_misses += 1
            return False
        self._data.move_to_end(key)
        self._hits[key] = self._hits.get(key, 0) + 1
        self._stat_hits += 1
        return True

    def frequency(self, key: Hashable) -> int:
        """Access count (for parity with :class:`LFUCache` introspection)."""
        if key not in self._data:
            return 0
        return self._hits.get(key, 0) + 1

    def put(self, key: Hashable, value: Any) -> Hashable | None:
        evicted = None
        if key in self._data:
            self._data.move_to_end(key)
        else:
            if len(self._data) >= self.capacity:
                evicted, _ = self._data.popitem(last=False)
                self._hits.pop(evicted, None)
                self._stat_evictions += 1
            self._stat_insertions += 1
        self._data[key] = value
        return evicted

    def items(self) -> Iterator[tuple[Hashable, Any]]:
        """Iterate ``(key, value)`` from least- to most-recently used."""
        return iter(list(self._data.items()))

    def keys(self) -> Iterator[Hashable]:
        for key, _ in self.items():
            yield key

    def values(self) -> Iterator[Any]:
        for _, value in self.items():
            yield value

    def clear(self) -> None:
        self._data.clear()
        self._hits.clear()
        self._reset_counters()

    def __repr__(self) -> str:
        return f"LRUCache(capacity={self.capacity}, size={len(self)})"


class FIFOCache(StatCounters):
    """Bounded mapping with first-in-first-out eviction (hits ignored)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits: dict[Hashable, int] = {}
        self._reset_counters()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        if key in self._data:
            self._hits[key] = self._hits.get(key, 0) + 1
            self._stat_hits += 1
        else:
            self._stat_misses += 1
        return self._data.get(key, default)

    def peek(self, key: Hashable, default: Any = None) -> Any:
        return self._data.get(key, default)

    def touch(self, key: Hashable) -> bool:
        if key not in self._data:
            self._stat_misses += 1
            return False
        self._hits[key] = self._hits.get(key, 0) + 1
        self._stat_hits += 1
        return True

    def frequency(self, key: Hashable) -> int:
        if key not in self._data:
            return 0
        return self._hits.get(key, 0) + 1

    def put(self, key: Hashable, value: Any) -> Hashable | None:
        evicted = None
        if key in self._data:
            self._data[key] = value  # update in place, keep insertion slot
            return None
        if len(self._data) >= self.capacity:
            evicted, _ = self._data.popitem(last=False)
            self._hits.pop(evicted, None)
            self._stat_evictions += 1
        self._stat_insertions += 1
        self._data[key] = value
        return evicted

    def items(self) -> Iterator[tuple[Hashable, Any]]:
        """Iterate ``(key, value)`` in insertion order (oldest first)."""
        return iter(list(self._data.items()))

    def keys(self) -> Iterator[Hashable]:
        for key, _ in self.items():
            yield key

    def values(self) -> Iterator[Any]:
        for _, value in self.items():
            yield value

    def clear(self) -> None:
        self._data.clear()
        self._hits.clear()
        self._reset_counters()

    def __repr__(self) -> str:
        return f"FIFOCache(capacity={self.capacity}, size={len(self)})"
