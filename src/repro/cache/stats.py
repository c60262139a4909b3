"""Uniform usage counters for the Augmenter cache policies.

Every cache policy (LFU/LRU/FIFO) tracks the same four events so the
Prompt Augmenter — and the serving layer's per-session ledgers — can report
cache behaviour without knowing which policy is installed:

* ``hits`` — successful ``get``/``touch`` lookups,
* ``misses`` — lookups of absent keys,
* ``insertions`` — ``put`` calls that added a *new* key,
* ``evictions`` — entries displaced to make room.

``clear()`` resets the counters together with the contents, so one episode's
statistics never leak into the next evaluation run.

``stale_evictions`` is owned by a layer above the policies: the Prompt
Augmenter counts entries it dropped because the *source graph mutated*
(cache-epoch invalidation, not capacity pressure) and merges the counter
into its snapshot; the raw policies always report 0.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheStats", "StatCounters"]


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of a cache's size and lifetime usage counters."""

    size: int
    capacity: int
    hits: int
    misses: int
    insertions: int
    evictions: int
    stale_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit; 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class StatCounters:
    """Mixin holding the four usage counters every policy shares.

    A policy calls :meth:`_reset_counters` from ``__init__`` and
    ``clear``, bumps ``_stat_hits`` / ``_stat_misses`` /
    ``_stat_insertions`` / ``_stat_evictions`` as events happen, and
    inherits :meth:`stats`.
    """

    capacity: int

    def _reset_counters(self) -> None:
        self._stat_hits = 0
        self._stat_misses = 0
        self._stat_insertions = 0
        self._stat_evictions = 0

    def stats(self) -> CacheStats:
        """Size plus lifetime hit/miss/insert/evict counters."""
        return CacheStats(size=len(self), capacity=self.capacity,
                          hits=self._stat_hits, misses=self._stat_misses,
                          insertions=self._stat_insertions,
                          evictions=self._stat_evictions)

    def __len__(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError
