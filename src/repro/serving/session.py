"""Session-scoped serving state: one Augmenter cache per logical caller.

A *session* is one logical stream of in-context queries — one tenant, one
episode definition (candidate pool + way count + shot count).  The paper's
Augmenter cache (Sec. IV-C) is a per-stream object: pseudo-labelled test
samples only make sense as prompts for *later queries of the same stream*,
so the serving layer gives every session its own
:class:`~repro.core.prompt_augmenter.PromptAugmenter` plus the encoded
candidate-pool arrays the Selector needs, and a stats ledger.

:class:`SessionStore` bounds the number of live sessions with LRU eviction
and optionally expires sessions idle longer than a TTL — the multi-tenant
analogue of the cache bound ``c`` inside each session.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..cache.stats import CacheStats
from ..core.prompt_augmenter import PromptAugmenter

__all__ = ["SessionStats", "SessionState", "SessionStore"]


@dataclass
class SessionStats:
    """Per-session serving ledger."""

    queries: int = 0
    batches: int = 0
    cache_insertions: int = 0
    total_wait_s: float = 0.0
    total_service_s: float = 0.0
    created_at: float = 0.0
    last_active: float = 0.0

    def record(self, wait_s: float, service_s: float, inserted: int,
               now: float) -> None:
        """Fold one completed query's timings into the session stats."""
        self.queries += 1
        self.batches += 1
        self.cache_insertions += inserted
        self.total_wait_s += wait_s
        self.total_service_s += service_s
        self.last_active = now


@dataclass
class SessionState:
    """Everything one session's queries need at prediction time.

    The last four fields are the live-update (cache-epoch) plumbing:
    ``graph_version`` records the graph epoch the cached pool encodings
    were computed under, ``dependent_nodes`` the union of every node the
    session's sampled subgraphs visited (pool and queries).  A mutation
    whose touched nodes intersect ``dependent_nodes`` marks the session
    ``stale``; the server re-encodes its pool — from ``episode``, kept
    for exactly this — and purges its Augmenter cache before the next
    prediction, so a mutated session never answers from pre-mutation
    subgraphs while untouched sessions keep their caches (and hit-rates)
    intact.
    """

    session_id: str
    num_ways: int
    shots: int
    candidate_emb: np.ndarray
    candidate_importance: np.ndarray
    pool_labels: np.ndarray
    augmenter: PromptAugmenter
    stats: SessionStats = field(default_factory=SessionStats)
    episode: object | None = None
    graph_version: int = 0
    dependent_nodes: set = field(default_factory=set)
    stale: bool = False

    def cache_stats(self) -> CacheStats:
        """Counter snapshot of this session's Augmenter cache."""
        return self.augmenter.stats()


class SessionStore:
    """Bounded mapping of live sessions with LRU + TTL eviction.

    ``capacity`` caps concurrently-resident sessions (least recently *used*
    evicted first); ``ttl_seconds`` additionally expires sessions whose last
    activity is older than the TTL at sweep time.  ``clock`` is injectable
    so tests can advance time explicitly.
    """

    def __init__(self, capacity: int = 64, ttl_seconds: float | None = None,
                 clock=time.monotonic):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive when set")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self.clock = clock
        self._sessions: "OrderedDict[str, SessionState]" = OrderedDict()
        self.evicted_total = 0
        self.expired_total = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def ids(self) -> list[str]:
        """Live session ids, least recently used first."""
        return list(self._sessions)

    def states(self) -> list[SessionState]:
        """Live session states (no recency touch) — for bulk sweeps like
        graph-mutation invalidation, which must not reorder eviction."""
        return list(self._sessions.values())

    def put(self, state: SessionState) -> list[str]:
        """Register a session; returns ids evicted to make room."""
        now = self.clock()
        state.stats.created_at = now
        state.stats.last_active = now
        evicted = []
        if state.session_id not in self._sessions:
            while len(self._sessions) >= self.capacity:
                victim, _ = self._sessions.popitem(last=False)
                self.evicted_total += 1
                evicted.append(victim)
        self._sessions[state.session_id] = state
        self._sessions.move_to_end(state.session_id)
        return evicted

    def get(self, session_id: str) -> SessionState:
        """Fetch a live session and refresh its recency.

        Raises ``KeyError`` for unknown (or already evicted/expired) ids —
        the caller decides whether that is a client error or a re-open.
        """
        state = self._sessions[session_id]
        self._sessions.move_to_end(session_id)
        state.stats.last_active = self.clock()
        return state

    def close(self, session_id: str) -> SessionState | None:
        """Remove a session explicitly; returns its final state."""
        return self._sessions.pop(session_id, None)

    def sweep(self) -> list[str]:
        """Expire sessions idle for longer than ``ttl_seconds``."""
        if self.ttl_seconds is None:
            return []
        now = self.clock()
        expired = [sid for sid, state in self._sessions.items()
                   if now - state.stats.last_active > self.ttl_seconds]
        for sid in expired:
            del self._sessions[sid]
            self.expired_total += 1
        return expired
