"""O(1) Least-Frequently-Used cache (Mátáni, Shah & Mitra — paper ref [51]).

The Prompt Augmenter (Sec. IV-C) stores online test samples with their
pseudo-labels in a bounded cache ``C`` and evicts with LFU: retrieval hits
bump an entry's frequency, so prompts that keep being similar to incoming
queries survive while stale ones fall out.

The classic O(1) construction keeps a doubly-linked list of *frequency
buckets*, each holding the keys that share one access count; eviction pops
from the head bucket (lowest frequency, FIFO within the bucket for ties).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterator

from .stats import StatCounters

__all__ = ["LFUCache"]


class _FrequencyBucket:
    """Doubly-linked node holding all keys with one access frequency."""

    __slots__ = ("frequency", "keys", "prev", "next")

    def __init__(self, frequency: int):
        self.frequency = frequency
        self.keys: "OrderedDict[Hashable, None]" = OrderedDict()
        self.prev: "_FrequencyBucket | None" = None
        self.next: "_FrequencyBucket | None" = None


class LFUCache(StatCounters):
    """Bounded mapping with least-frequently-used eviction in O(1).

    ``put`` inserts at frequency 1 (evicting the LFU entry when full),
    ``get``/``touch`` increment an entry's frequency.  Iteration yields
    ``(key, value)`` pairs in ascending frequency order.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._values: dict[Hashable, Any] = {}
        self._bucket_of: dict[Hashable, _FrequencyBucket] = {}
        # Sentinel head simplifies bucket insertion/removal.
        self._head = _FrequencyBucket(0)
        self._reset_counters()

    # ------------------------------------------------------------------
    # Bucket list maintenance
    # ------------------------------------------------------------------
    def _insert_bucket_after(self, bucket: _FrequencyBucket,
                             anchor: _FrequencyBucket) -> None:
        bucket.prev = anchor
        bucket.next = anchor.next
        if anchor.next is not None:
            anchor.next.prev = bucket
        anchor.next = bucket

    def _remove_bucket(self, bucket: _FrequencyBucket) -> None:
        if bucket.prev is not None:
            bucket.prev.next = bucket.next
        if bucket.next is not None:
            bucket.next.prev = bucket.prev

    def _bump(self, key: Hashable) -> None:
        """Move ``key`` from its bucket to the (frequency + 1) bucket."""
        bucket = self._bucket_of[key]
        target_freq = bucket.frequency + 1
        nxt = bucket.next
        if nxt is None or nxt.frequency != target_freq:
            nxt = _FrequencyBucket(target_freq)
            self._insert_bucket_after(nxt, bucket)
        del bucket.keys[key]
        nxt.keys[key] = None
        self._bucket_of[key] = nxt
        if not bucket.keys:
            self._remove_bucket(bucket)

    # ------------------------------------------------------------------
    # Mapping API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._values

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the value for ``key`` and count the access."""
        if key not in self._values:
            self._stat_misses += 1
            return default
        self._stat_hits += 1
        self._bump(key)
        return self._values[key]

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Return the value without affecting frequencies."""
        return self._values.get(key, default)

    def touch(self, key: Hashable) -> bool:
        """Record a hit on ``key`` (the Augmenter's similarity-hit update)."""
        if key not in self._values:
            self._stat_misses += 1
            return False
        self._stat_hits += 1
        self._bump(key)
        return True

    def frequency(self, key: Hashable) -> int:
        """Current access count of ``key`` (0 when absent)."""
        bucket = self._bucket_of.get(key)
        return bucket.frequency if bucket is not None else 0

    def put(self, key: Hashable, value: Any) -> Hashable | None:
        """Insert or update ``key``; returns the evicted key, if any."""
        if key in self._values:
            self._values[key] = value
            self._bump(key)
            return None
        evicted = None
        if len(self._values) >= self.capacity:
            evicted = self._evict()
            self._stat_evictions += 1
        self._stat_insertions += 1
        first = self._head.next
        if first is None or first.frequency != 1:
            first = _FrequencyBucket(1)
            self._insert_bucket_after(first, self._head)
        first.keys[key] = None
        self._bucket_of[key] = first
        self._values[key] = value
        return evicted

    def _evict(self) -> Hashable:
        bucket = self._head.next
        assert bucket is not None and bucket.keys, "evict called on empty cache"
        key, _ = bucket.keys.popitem(last=False)  # FIFO among ties
        if not bucket.keys:
            self._remove_bucket(bucket)
        del self._values[key]
        del self._bucket_of[key]
        return key

    def items(self) -> Iterator[tuple[Hashable, Any]]:
        """Iterate ``(key, value)`` in ascending frequency order."""
        bucket = self._head.next
        while bucket is not None:
            for key in bucket.keys:
                yield key, self._values[key]
            bucket = bucket.next

    def values(self) -> Iterator[Any]:
        for _, value in self.items():
            yield value

    def keys(self) -> Iterator[Hashable]:
        for key, _ in self.items():
            yield key

    def clear(self) -> None:
        self._values.clear()
        self._bucket_of.clear()
        self._head.next = None
        self._reset_counters()

    def __repr__(self) -> str:
        return f"LFUCache(capacity={self.capacity}, size={len(self)})"
